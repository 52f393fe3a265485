//! The serializable [`TelemetryReport`] and its merge rules.
//!
//! A report has two halves with different determinism contracts:
//!
//! * [`TelemetryData`] — counters, occupancy/latency sketches and the
//!   round series. Deterministic: a pure function of the scenario,
//!   whatever the injected clock (`crates/bench/tests/telemetry_golden.rs`
//!   pins it), so it derives `PartialEq` and is safe to golden-test.
//! * [`TelemetryProfile`] — phase wall-times. These legitimately vary
//!   with the injected [`Clock`](crate::Clock), so conformance
//!   comparisons must exclude them.
//!
//! [`TelemetryReport::merge`] aggregates reports across runs (e.g. a
//! sweep): counters, sketches and profile add order-insensitively,
//! while the round series concatenates in input order — the same merge
//! convention the sweep layer uses for its results.

use serde::{Deserialize, Serialize};

use crate::series::SeriesData;
use crate::sketch::HistogramSketch;

/// Whole-run packet counters (exact, O(1) memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryCounters {
    /// Rounds executed while the probe was attached.
    pub rounds: u64,
    /// Total packets injected by the adversary.
    pub injected: u64,
    /// Total staged packets accepted into buffers (batched mode).
    pub accepted: u64,
    /// Total forwarding moves.
    pub forwarded: u64,
    /// Total packets delivered.
    pub delivered: u64,
    /// Total packets dropped by capacity enforcement.
    pub dropped: u64,
    /// Total packets lost to faults (crash sweeps and injections at dead
    /// nodes; 0 on fault-free runs).
    pub faulted: u64,
    /// Rounds on which at least one fault was active (the engine's
    /// `on_fault` hook fired; 0 on fault-free runs).
    pub fault_rounds: u64,
}

impl TelemetryCounters {
    /// Adds `other` into `self` field-wise.
    pub fn merge(&mut self, other: &TelemetryCounters) {
        self.rounds += other.rounds;
        self.injected += other.injected;
        self.accepted += other.accepted;
        self.forwarded += other.forwarded;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.faulted += other.faulted;
        self.fault_rounds += other.fault_rounds;
    }
}

/// Accumulated wall-time for one engine phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Total nanoseconds attributed to this phase (0 under the default
    /// [`NullClock`](crate::NullClock)).
    pub nanos: u64,
    /// Rounds that contributed a measurement.
    pub rounds: u64,
}

impl PhaseStat {
    /// Records one round's duration.
    pub fn record(&mut self, nanos: u64) {
        self.nanos = self.nanos.saturating_add(nanos);
        self.rounds += 1;
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &PhaseStat) {
        self.nanos = self.nanos.saturating_add(other.nanos);
        self.rounds += other.rounds;
    }
}

/// Profiling half of a report: phase wall-times.
///
/// Everything here depends on the injected clock, so it is excluded
/// from determinism comparisons.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryProfile {
    /// Injection step (staged acceptance + injections + `L^t` observe).
    pub inject: PhaseStat,
    /// Protocol planning.
    pub plan: PhaseStat,
    /// Move validation/collection.
    pub forward: PhaseStat,
    /// Move application (removals, arrivals, deliveries).
    pub merge: PhaseStat,
}

impl TelemetryProfile {
    /// Adds `other` into `self`, phase by phase.
    pub fn merge(&mut self, other: &TelemetryProfile) {
        self.inject.merge(&other.inject);
        self.plan.merge(&other.plan);
        self.forward.merge(&other.forward);
        self.merge.merge(&other.merge);
    }
}

/// Deterministic half of a report: identical for every run of the same
/// scenario.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryData {
    /// Whole-run packet counters.
    pub counters: TelemetryCounters,
    /// Buffer-occupancy sketch, sampled per node at the `L^t`
    /// measurement point (honoring the occupancy stride).
    pub occupancy: HistogramSketch,
    /// End-to-end latency sketch (`delivery − injection + 1`), one
    /// sample per delivered packet.
    pub latency: HistogramSketch,
    /// Bounded per-round series.
    pub series: SeriesData,
}

impl TelemetryData {
    /// Merges `other` into `self`: counters and sketches add
    /// order-insensitively, the series concatenates in input order.
    pub fn merge(&mut self, other: &TelemetryData) {
        self.counters.merge(&other.counters);
        self.occupancy.merge(&other.occupancy);
        self.latency.merge(&other.latency);
        self.series.merge(&other.series);
    }
}

/// A complete telemetry report for one run (or a merged aggregate).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Deterministic measurements.
    pub data: TelemetryData,
    /// Clock-dependent profiling.
    pub profile: TelemetryProfile,
}

impl TelemetryReport {
    /// Merges `other` into `self` (see [`TelemetryData::merge`] and
    /// [`TelemetryProfile::merge`] for the per-half rules).
    pub fn merge(&mut self, other: &TelemetryReport) {
        self.data.merge(&other.data);
        self.profile.merge(&other.profile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_fieldwise() {
        let mut a = TelemetryCounters {
            rounds: 2,
            injected: 3,
            accepted: 0,
            forwarded: 5,
            delivered: 1,
            dropped: 0,
            faulted: 2,
            fault_rounds: 1,
        };
        let b = TelemetryCounters {
            rounds: 1,
            injected: 1,
            accepted: 2,
            forwarded: 1,
            delivered: 1,
            dropped: 4,
            faulted: 3,
            fault_rounds: 1,
        };
        a.merge(&b);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.injected, 4);
        assert_eq!(a.accepted, 2);
        assert_eq!(a.forwarded, 6);
        assert_eq!(a.delivered, 2);
        assert_eq!(a.dropped, 4);
        assert_eq!(a.faulted, 5);
        assert_eq!(a.fault_rounds, 2);
    }

    #[test]
    fn report_merge_is_order_insensitive_outside_series() {
        let mut a = TelemetryReport::default();
        a.data.counters.rounds = 4;
        a.data.occupancy.record(3);
        a.profile.plan.record(10);
        let mut b = TelemetryReport::default();
        b.data.counters.rounds = 2;
        b.data.occupancy.record(9);
        b.profile.plan.record(5);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.data, ba.data);
        assert_eq!(ab.profile, ba.profile);
        assert_eq!(ab.profile.plan.nanos, 15);
        assert_eq!(ab.profile.plan.rounds, 2);
    }

    #[test]
    fn serde_round_trip() {
        let mut r = TelemetryReport::default();
        r.data.counters.rounds = 7;
        r.data.latency.record(12);
        r.profile.merge.record(42);
        let json = serde_json::to_string(&r).unwrap();
        let back: TelemetryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.data, r.data);
        assert_eq!(back.profile, r.profile);
    }
}
