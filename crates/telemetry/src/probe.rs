//! The [`TelemetryProbe`]: a [`Probe`] implementation that feeds every
//! engine hook into bounded sketches, counters and a ring series.

use aqt_model::{EnginePhase, FaultState, NetworkState, Packet, Probe, Round, RoundOutcome};
use serde::{Deserialize, Serialize};

use crate::clock::{Clock, NullClock};
use crate::report::{TelemetryProfile, TelemetryReport};
use crate::series::{RoundSample, RoundSeries};
use crate::sketch::HistogramSketch;

/// Configuration for a [`TelemetryProbe`].
///
/// All strides/capacities are clamped to at least 1 at probe
/// construction. The spec is serializable so scenarios can carry it
/// (the `telemetry` field of `aqt-analysis`' `Scenario`); note the
/// vendored serde requires every field to be present in JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetrySpec {
    /// Ring capacity of the per-round series (samples retained).
    pub series_capacity: u64,
    /// Keep rounds where `round % series_stride == 0` in the series.
    pub series_stride: u64,
    /// Sample buffer occupancy distributions only on rounds where
    /// `round % occupancy_stride == 0`. A sampled round records every
    /// node's occupancy but costs O(active nodes): the empty buffers
    /// enter the sketch in one step.
    pub occupancy_stride: u64,
}

impl Default for TelemetrySpec {
    /// 1024 retained samples, every round in the series, occupancy
    /// sampled every round.
    fn default() -> Self {
        TelemetrySpec {
            series_capacity: 1024,
            series_stride: 1,
            occupancy_stride: 1,
        }
    }
}

/// The standard telemetry probe: O(histogram buckets + ring capacity)
/// memory, independent of rounds and node count, and O(active nodes +
/// deliveries) work per round.
///
/// Construct with [`new`](TelemetryProbe::new) (deterministic
/// [`NullClock`], all phase times 0) or
/// [`with_clock`](TelemetryProbe::with_clock) (e.g. a wall clock from
/// `aqt-bench`), drive it through `Simulation::step_probed` /
/// `run_past_horizon_probed`, then take the result
/// with [`report`](TelemetryProbe::report).
pub struct TelemetryProbe {
    spec: TelemetrySpec,
    clock: Box<dyn Clock>,
    counters: crate::report::TelemetryCounters,
    occupancy: HistogramSketch,
    latency: HistogramSketch,
    series: RoundSeries,
    profile: TelemetryProfile,
}

impl std::fmt::Debug for TelemetryProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryProbe")
            .field("spec", &self.spec)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl TelemetryProbe {
    /// Creates a probe with the deterministic [`NullClock`] (phase
    /// durations all 0; no wall-clock reads).
    pub fn new(spec: TelemetrySpec) -> Self {
        TelemetryProbe::with_clock(spec, Box::new(NullClock))
    }

    /// Creates a probe timing phases with `clock`.
    pub fn with_clock(spec: TelemetrySpec, clock: Box<dyn Clock>) -> Self {
        TelemetryProbe {
            spec,
            clock,
            counters: crate::report::TelemetryCounters::default(),
            occupancy: HistogramSketch::new(),
            latency: HistogramSketch::new(),
            series: RoundSeries::new(
                spec.series_capacity.max(1) as usize,
                spec.series_stride.max(1),
            ),
            profile: TelemetryProfile::default(),
        }
    }

    /// The spec this probe was built with.
    pub fn spec(&self) -> TelemetrySpec {
        self.spec
    }

    /// Snapshots the accumulated telemetry. Cheap enough to call
    /// mid-run for periodic flushing: O(buckets + retained samples).
    pub fn report(&self) -> TelemetryReport {
        TelemetryReport {
            data: crate::report::TelemetryData {
                counters: self.counters,
                occupancy: self.occupancy.clone(),
                latency: self.latency.clone(),
                series: self.series.to_data(),
            },
            profile: self.profile.clone(),
        }
    }
}

impl Probe for TelemetryProbe {
    fn now_nanos(&mut self) -> u64 {
        self.clock.now_nanos()
    }

    fn on_observe(&mut self, round: Round, state: &NetworkState) {
        if round.value() % self.spec.occupancy_stride.max(1) != 0 {
            return;
        }
        // The active set is exact at this hook: sample the live buffers,
        // then every other buffer's 0 in one call.
        let mut active = 0u64;
        for v in state.active_nodes() {
            self.occupancy.record(state.occupancy(v) as u64);
            active += 1;
        }
        self.occupancy
            .record_n(0, state.node_count() as u64 - active);
    }

    fn on_phase(&mut self, _round: Round, phase: EnginePhase, nanos: u64) {
        match phase {
            EnginePhase::Inject => self.profile.inject.record(nanos),
            EnginePhase::Plan => self.profile.plan.record(nanos),
            EnginePhase::Forward => self.profile.forward.record(nanos),
            EnginePhase::Merge => self.profile.merge.record(nanos),
        }
    }

    fn on_delivery(&mut self, round: Round, packet: &Packet) {
        // Same latency convention as RunMetrics: a packet injected and
        // delivered in the same round took 1 round. A delivery round
        // before the injection round is an engine invariant violation —
        // surface it instead of silently recording a latency of 1.
        let latency = round
            .since(packet.injected_at())
            .expect("delivery cannot precede injection")
            + 1;
        self.latency.record(latency);
    }

    fn on_fault(&mut self, _round: Round, _state: &FaultState) {
        self.counters.fault_rounds += 1;
    }

    fn on_round(&mut self, outcome: &RoundOutcome, _state: &NetworkState) {
        self.counters.rounds += 1;
        self.counters.injected += outcome.injected as u64;
        self.counters.accepted += outcome.accepted as u64;
        self.counters.forwarded += outcome.forwarded as u64;
        self.counters.delivered += outcome.delivered as u64;
        self.counters.dropped += outcome.dropped as u64;
        self.counters.faulted += outcome.faulted as u64;
        self.series.offer(RoundSample {
            round: outcome.round.value(),
            injected: outcome.injected as u64,
            accepted: outcome.accepted as u64,
            forwarded: outcome.forwarded as u64,
            delivered: outcome.delivered as u64,
            dropped: outcome.dropped as u64,
            faulted: outcome.faulted as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TickClock;
    use aqt_model::{
        ForwardingPlan, Injection, NodeId, Path, Pattern, Protocol, Simulation, Topology,
    };

    /// Forward every non-empty buffer.
    struct Drain;
    impl<T: Topology> Protocol<T> for Drain {
        fn name(&self) -> String {
            "drain".into()
        }
        fn plan(&mut self, _: Round, _: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
            for v in 0..state.node_count() {
                let v = NodeId::new(v);
                if let Some(top) = state.lifo_top_where(v, |_| true) {
                    plan.send(v, top.id());
                }
            }
        }
    }

    fn two_packet_pattern() -> Pattern {
        Pattern::from_injections(vec![Injection::new(0, 0, 3), Injection::new(1, 1, 3)])
    }

    #[test]
    fn probe_counts_and_sketches_a_run() {
        let pattern = two_packet_pattern();
        let mut sim = Simulation::new(Path::new(4), Drain, &pattern).unwrap();
        let mut probe = TelemetryProbe::new(TelemetrySpec::default());
        sim.run_past_horizon_probed(6, &mut probe).unwrap();
        let report = probe.report();
        assert_eq!(report.data.counters.injected, 2);
        assert_eq!(report.data.counters.delivered, 2);
        assert_eq!(report.data.latency.count(), 2);
        // Packet 0 travels 0→3 (3 hops, latency 3+1 with the +1
        // same-round convention applied after its final hop round).
        assert!(report.data.latency.max >= 3);
        assert!(report.data.occupancy.count() > 0);
        assert_eq!(report.data.counters.rounds, report.data.series.offered);
        // NullClock: all phase durations are zero.
        assert_eq!(report.profile.plan.nanos, 0);
        assert_eq!(report.profile.plan.rounds, report.data.counters.rounds);
    }

    #[test]
    fn probed_metrics_match_plain_run() {
        let pattern = two_packet_pattern();
        let mut plain = Simulation::new(Path::new(4), Drain, &pattern).unwrap();
        plain.run_past_horizon(6).unwrap();
        let mut probed = Simulation::new(Path::new(4), Drain, &pattern).unwrap();
        let mut probe = TelemetryProbe::new(TelemetrySpec::default());
        probed.run_past_horizon_probed(6, &mut probe).unwrap();
        assert_eq!(
            serde_json::to_string(plain.metrics()).unwrap(),
            serde_json::to_string(probed.metrics()).unwrap()
        );
    }

    #[test]
    fn tick_clock_times_phases() {
        let pattern = two_packet_pattern();
        let mut sim = Simulation::new(Path::new(4), Drain, &pattern).unwrap();
        let mut probe =
            TelemetryProbe::with_clock(TelemetrySpec::default(), Box::new(TickClock::new(1)));
        sim.run_past_horizon_probed(6, &mut probe).unwrap();
        let report = probe.report();
        // TickClock advances 1ns per reading; each phase boundary is one
        // reading, so every phase accumulates rounds × 1ns.
        let rounds = report.data.counters.rounds;
        assert_eq!(report.profile.inject.nanos, rounds);
        assert_eq!(report.profile.plan.nanos, rounds);
        assert_eq!(report.profile.forward.nanos, rounds);
        assert_eq!(report.profile.merge.nanos, rounds);
    }

    #[test]
    fn latency_spans_a_flush_boundary() {
        // A packet injected at round 2 and delivered at round 5, with a
        // mid-flight report() (the flush snapshot) taken in between: the
        // flush must not see the undelivered packet, and the final sketch
        // must record the true 4-round latency — not the silent 1 the old
        // `unwrap_or(0) + 1` fallback produced on a bad delta.
        let pattern = Pattern::from_injections(vec![Injection::new(2, 0, 4)]);
        let mut sim = Simulation::new(Path::new(5), Drain, &pattern).unwrap();
        let mut probe = TelemetryProbe::new(TelemetrySpec::default());
        for _ in 0..4 {
            sim.step_probed(&mut probe).unwrap();
        }
        let mid = probe.report();
        assert_eq!(mid.data.counters.delivered, 0);
        assert_eq!(mid.data.latency.count(), 0);
        for _ in 0..4 {
            sim.step_probed(&mut probe).unwrap();
        }
        let report = probe.report();
        assert_eq!(report.data.counters.delivered, 1);
        assert_eq!(report.data.latency.count(), 1);
        assert_eq!(report.data.latency.max, 4);
    }

    #[test]
    fn fault_counters_mirror_the_engine() {
        use aqt_model::{FaultEvent, FaultSpec};
        // Node 1 crashes over rounds 1..3; the packet buffered there is
        // swept into the faulted ledger and the probe sees both the loss
        // and the two fault-active rounds.
        let faults = FaultSpec::new(0).with_event(FaultEvent::NodeCrash {
            node: 1,
            at: 1,
            until: Some(3),
        });
        let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 3)]);
        let mut sim = Simulation::new(Path::new(4), Drain, &pattern)
            .unwrap()
            .with_faults(&faults);
        let mut probe = TelemetryProbe::new(TelemetrySpec::default());
        for _ in 0..8 {
            sim.step_probed(&mut probe).unwrap();
        }
        let report = probe.report();
        assert_eq!(report.data.counters.faulted, sim.metrics().faulted);
        assert_eq!(report.data.counters.faulted, 1);
        assert_eq!(report.data.counters.fault_rounds, 2);
        let per_round: u64 = report.data.series.samples.iter().map(|s| s.faulted).sum();
        assert_eq!(per_round, 1);
    }

    #[test]
    fn occupancy_stride_thins_sampling() {
        let pattern = two_packet_pattern();
        let spec = TelemetrySpec {
            occupancy_stride: 4,
            ..TelemetrySpec::default()
        };
        let mut sim = Simulation::new(Path::new(4), Drain, &pattern).unwrap();
        let mut probe = TelemetryProbe::new(spec);
        sim.run_past_horizon_probed(6, &mut probe).unwrap();
        let strided = probe.report();
        let mut sim = Simulation::new(Path::new(4), Drain, &pattern).unwrap();
        let mut probe = TelemetryProbe::new(TelemetrySpec::default());
        sim.run_past_horizon_probed(6, &mut probe).unwrap();
        let dense = probe.report();
        assert!(strided.data.occupancy.count() < dense.data.occupancy.count());
        // 4 nodes sampled on rounds 0, 4, ... only.
        assert_eq!(strided.data.occupancy.count() % 4, 0);
    }
}
