//! # small-buffers — space-bandwidth tradeoffs for routing
//!
//! Executable reproduction of *"With Great Speed Come Small Buffers:
//! Space-Bandwidth Tradeoffs for Routing"* by Avery Miller, Boaz Patt-Shamir
//! and Will Rosenbaum (PODC 2019, [arXiv:1902.08069]).
//!
//! The paper studies the **Adversarial Queuing Theory (AQT)** model: a
//! synchronous network in which an adversary injects packets subject to a
//! *(ρ, σ)* bound — at most `ρ·|I| + σ` packets whose routes cross any given
//! link during any interval `I` — and asks how much **buffer space** a
//! forwarding algorithm needs so that no buffer ever overflows.
//!
//! This crate is a façade re-exporting the whole workspace:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`model`] | `aqt-model` | topologies, packets, patterns, (ρ,σ)-boundedness, the round engine |
//! | [`adversary`] | `aqt-adversary` | bounded adversary generators incl. the §5 lower-bound construction |
//! | [`algorithms`] | `aqt-core` | PTS, PPTS, HPTS, tree variants, greedy baselines, badness instrumentation |
//! | [`analysis`] | `aqt-analysis` | bound formulas, sweep helpers, table rendering, Figure 1 |
//! | [`telemetry`] | `aqt-telemetry` | streaming probes, histogram sketches, phase profiling |
//! | [`trace`] | `aqt-trace` | execution tracing, invariant monitors, ASCII rendering |
//!
//! The most commonly used items are re-exported at the crate root.
//!
//! ## The results being reproduced
//!
//! | Result | Statement | Protocol |
//! |--------|-----------|----------|
//! | Prop. 3.1 | single destination on a path: max buffer ≤ 2 + σ | [`Pts`] |
//! | Prop. 3.2 | d destinations on a path: max buffer ≤ 1 + d + σ | [`Ppts`] |
//! | Prop. B.3 | single destination on a directed tree: ≤ 2 + σ | [`TreePts`] |
//! | Prop. 3.5 | trees, d′ destinations per leaf-root path: ≤ 1 + d′ + σ | [`TreePpts`] |
//! | Thm. 4.1 | ℓ levels, ρ·ℓ ≤ 1: ≤ ℓ·n^{1/ℓ} + σ + 1 | [`Hpts`] |
//! | Thm. 5.1 | Ω(((ℓ+1)ρ−1)/2ℓ · n^{1/ℓ}) against **every** protocol | [`LowerBoundAdversary`] |
//!
//! ## Quickstart
//!
//! Run PPTS against a random (ρ, σ)-bounded adversary with d = 4
//! destinations and check the paper's `1 + d + σ` bound:
//!
//! ```
//! use small_buffers::{
//!     analyze, DestSpec, Path, Ppts, RandomAdversary, Rate, Simulation,
//! };
//!
//! let topo = Path::new(64);
//! let rho = Rate::new(1, 2)?;
//! let sigma = 4;
//! let dests = vec![15, 31, 47, 63];
//!
//! let pattern = RandomAdversary::new(rho, sigma, 500)
//!     .destinations(DestSpec::fixed(dests.clone()))
//!     .seed(7)
//!     .build_path(&topo);
//!
//! // The generator is bounded by construction; measure its tight σ.
//! let report = analyze(&topo, &pattern, rho);
//! assert!(report.tight_sigma <= sigma);
//!
//! let mut sim = Simulation::new(topo, Ppts::new(), &pattern)?;
//! sim.run_past_horizon(200)?;
//! let max = sim.metrics().max_occupancy;
//! assert!(max as u64 <= 1 + dests.len() as u64 + report.tight_sigma);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Reproducing the paper's claims
//!
//! The experiment harness lives in the `aqt-bench` crate:
//!
//! ```text
//! cargo run -p aqt-bench --release --bin experiments          # all tables
//! cargo run -p aqt-bench --release --bin experiments -- e4    # one claim
//! cargo run -p aqt-bench --release --bin experiments -- --quick e10 --bench-baseline BENCH_engine.json
//! ```
//!
//! See `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! [arXiv:1902.08069]: https://arxiv.org/abs/1902.08069

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// The AQT substrate: topologies, packets, patterns, boundedness, engine.
pub mod model {
    pub use aqt_model::*;
}

/// Adversary generators, including the Section 5 lower-bound construction.
pub mod adversary {
    pub use aqt_adversary::*;
}

/// The paper's forwarding algorithms and the greedy baselines.
pub mod algorithms {
    pub use aqt_core::*;
}

/// Bound formulas, experiment helpers and rendering.
pub mod analysis {
    pub use aqt_analysis::*;
}

/// Execution tracing, invariant monitors and ASCII rendering.
pub mod trace {
    pub use aqt_trace::*;
}

/// Streaming telemetry: probes, histogram sketches, phase profiling.
pub mod telemetry {
    pub use aqt_telemetry::*;
}

pub use aqt_adversary::{
    grid, patterns, shape, Cadence, DestSpec, LowerBoundAdversary, LowerBoundError,
    RandomAdversary, RandomSource, ShapingSource, SourceSpec, SourceSpecError,
};
pub use aqt_analysis::{
    bounds, capacity_threshold, render_figure1, run_grid, run_scenario, run_scenario_probed, sweep,
    CapacitySpec, CapacityThreshold, Prediction, RunSummary, Scenario, ScenarioError, ScenarioGrid,
    StaticReport, Table, Verdict,
};
pub use aqt_core::{
    badness, low_antichain, Batched, DagGreedy, DestSpaceError, Greedy, GreedyPolicy, Hierarchy,
    Hpts, HptsD, LevelSchedule, LocalPts, Ppts, ProtocolSpec, ProtocolSpecError, PseudoPriority,
    Pts, TreePpts, TreePts,
};
pub use aqt_model::{
    analyze, brute_force_tight_sigma, interval_load, is_bounded, AnyTopology, BoundednessReport,
    CapacityConfig, Dag, DagError, DirectedTree, DropPolicyKind, ExcessTracker, FaultEvent,
    FaultSpec, FaultState, FnSource, ForwardingPlan, Injection, InjectionMode, InjectionSource,
    LatencyStats, ModelError, NetworkState, NodeId, Packet, PacketId, Path, Pattern, PatternError,
    PatternSource, Protocol, Rate, RateError, Round, RoundOutcome, RunMetrics, Simulation,
    StagingMode, StoredPacket, Topology, TopologySpec, TopologySpecError, TreeError, TreeSpec,
};
pub use aqt_telemetry::{
    Clock, HistogramSketch, NullClock, PhaseStat, RoundSample, TelemetryCounters, TelemetryData,
    TelemetryProbe, TelemetryProfile, TelemetryReport, TelemetrySpec, TickClock,
};
pub use aqt_trace::{
    grid_heatmap, heatmap, loss_heatmap, sparkline, BadnessExcessMonitor, Monitor, Monitors,
    OccupancyMonitor, RoundRecord, SendRecord, Trace, Tracer, Violation,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_are_usable() {
        // Eager PTS drains even a lone (never-bad) packet.
        let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 3)]);
        let mut sim = Simulation::new(Path::new(4), Pts::eager(NodeId::new(3)), &pattern).unwrap();
        sim.run_past_horizon(10).unwrap();
        assert_eq!(sim.metrics().delivered, 1);
    }

    #[test]
    fn module_paths_mirror_crates() {
        let r = model::Rate::new(1, 3).unwrap();
        assert_eq!(r, Rate::new(1, 3).unwrap());
        assert_eq!(analysis::bounds::pts_bound(0), bounds::pts_bound(0));
    }
}
